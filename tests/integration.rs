//! Workspace-level integration tests: the full pipeline (parse → analyze →
//! optimize → fixpoint → final plan) driven through the facade crate, plus
//! cross-engine agreement (SQL engine vs vertex-centric vs async vs serial).

use rasql::core::{library, EngineConfig, RaSqlContext};
use rasql::datagen::{rmat, tree_hierarchy, RmatConfig, TreeConfig};
use rasql::exec::{Cluster, ClusterConfig};
use rasql::gap;
use rasql::myria::{Algorithm, MyriaEngine};
use rasql::prelude::*;
use rasql::vertex::{BspEngine, DatasetPregelEngine, Sssp, VertexGraph};

fn weighted_graph(n: usize, seed: u64) -> Relation {
    rmat(
        n,
        RmatConfig {
            weighted: true,
            ..Default::default()
        },
        seed,
    )
}

#[test]
fn four_engines_agree_on_sssp() {
    let edges = weighted_graph(400, 77);
    let source = 1i64;

    // 1. RaSQL.
    let ctx = EngineConfig::rasql().workers(2).build();
    ctx.register("edge", edges.clone()).unwrap();
    let sql = ctx.query(&library::sssp(source)).unwrap().relation;
    let mut sql_pairs: Vec<(i64, i64)> = sql
        .rows()
        .iter()
        .map(|r| {
            (
                r[0].as_int().unwrap(),
                (r[1].as_f64().unwrap() * 1e6).round() as i64,
            )
        })
        .collect();
    sql_pairs.sort_unstable();

    // 2. Serial Dijkstra.
    let csr = gap::Csr::from_relation(&edges);
    let mut oracle: Vec<(i64, i64)> = gap::sssp_dijkstra(&csr, source as usize)
        .into_iter()
        .map(|(v, d)| (v, (d * 1e6).round() as i64))
        .collect();
    oracle.sort_unstable();
    assert_eq!(sql_pairs, oracle, "SQL vs Dijkstra");

    // 3. BSP (Giraph analog).
    let cluster = Cluster::new(ClusterConfig::with_workers(2));
    let g = VertexGraph::from_relation(&edges);
    let (bsp_vals, _) = BspEngine::new(&cluster).run(
        &g,
        Sssp {
            source: source as u32,
        },
    );
    let mut bsp: Vec<(i64, i64)> = bsp_vals
        .iter()
        .enumerate()
        .filter(|(_, v)| v.is_finite())
        .map(|(i, v)| (i as i64, (v * 1e6).round() as i64))
        .collect();
    bsp.sort_unstable();
    assert_eq!(bsp, oracle, "BSP vs Dijkstra");

    // 4. Dataset Pregel (GraphX analog).
    let (dp_vals, _) = DatasetPregelEngine::new(&cluster).run(
        &g,
        Sssp {
            source: source as u32,
        },
    );
    assert_eq!(dp_vals, bsp_vals, "DatasetPregel vs BSP");

    // 5. Myria (async).
    let (my_vals, _) = MyriaEngine::new(3).run(
        &edges,
        Algorithm::Sssp {
            source: source as u32,
        },
    );
    let mut myria: Vec<(i64, i64)> = my_vals
        .iter()
        .enumerate()
        .filter(|(_, v)| v.is_finite())
        .map(|(i, v)| (i as i64, (v * 1e6).round() as i64))
        .collect();
    myria.sort_unstable();
    assert_eq!(myria, oracle, "Myria vs Dijkstra");
}

#[test]
fn fig10_queries_cross_config_agreement() {
    let tree = tree_hierarchy(
        TreeConfig {
            target_nodes: 600,
            ..Default::default()
        },
        99,
    );
    for sql_tables in [
        (
            library::bom_delivery(),
            vec![("assbl", &tree.assbl), ("basic", &tree.basic)],
        ),
        (library::management(), vec![("report", &tree.report)]),
        (
            library::mlm_bonus(),
            vec![("sales", &tree.sales), ("sponsor", &tree.sponsor)],
        ),
    ] {
        let (sql, tables) = sql_tables;
        let mut reference: Option<Relation> = None;
        for cfg in [
            EngineConfig::rasql(),
            EngineConfig::bigdatalog_like(),
            EngineConfig::spark_sql_sn(),
        ] {
            let ctx = cfg.workers(2).build();
            for (n, r) in &tables {
                ctx.register(n, (*r).clone()).unwrap();
            }
            let got = ctx.query(&sql).unwrap().relation.sorted();
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(&got, want, "{sql}"),
            }
        }
    }
}

#[test]
fn multi_statement_session_with_views() {
    let ctx = RaSqlContext::in_memory();
    ctx.register("edge", Relation::edges(&[(1, 2), (2, 3), (3, 4), (9, 9)]))
        .unwrap();
    // CREATE VIEW, then use the view from a recursive query.
    let results = ctx
        .query_script(
            "CREATE VIEW fwd(a, b) AS (SELECT Src, Dst FROM edge WHERE Src < 9); \
             WITH recursive tc (Src, Dst) AS \
               (SELECT a, b FROM fwd) UNION \
               (SELECT tc.Src, fwd.b FROM tc, fwd WHERE tc.Dst = fwd.a) \
             SELECT Src, Dst FROM tc",
        )
        .unwrap();
    assert_eq!(results.last().unwrap().relation.len(), 6);
}

#[test]
fn quickstart_doc_example() {
    // The exact snippet from the facade crate docs.
    let ctx = RaSqlContext::in_memory();
    ctx.register(
        "edge",
        Relation::weighted_edges(&[(1, 2, 1.0), (2, 3, 2.0), (1, 3, 10.0)]),
    )
    .unwrap();
    let result = ctx
        .query(
            "WITH recursive path (Dst, min() AS Cost) AS \
               (SELECT 1, 0.0) UNION \
               (SELECT edge.Dst, path.Cost + edge.Cost FROM path, edge \
                WHERE path.Dst = edge.Src) \
             SELECT Dst, Cost FROM path",
        )
        .unwrap();
    assert_eq!(result.relation.len(), 3);
    let r = result.relation.sorted();
    assert_eq!(r.rows()[2][1], Value::Double(3.0)); // 1→2→3 beats direct 10.0
}

#[test]
fn metrics_accumulate_across_queries() {
    let ctx = RaSqlContext::in_memory();
    ctx.register("edge", Relation::edges(&[(1, 2), (2, 3)]))
        .unwrap();
    ctx.query(&library::reach(1)).unwrap();
    let after_one = ctx.metrics();
    assert!(after_one.stages > 0);
    ctx.query(&library::reach(1)).unwrap();
    assert!(ctx.metrics().stages > after_one.stages);
    ctx.reset_metrics();
    assert_eq!(ctx.metrics().stages, 0);
}

#[test]
fn error_paths_are_clean() {
    let ctx = RaSqlContext::in_memory();
    // Unknown table.
    assert!(ctx.query("SELECT x FROM missing").is_err());
    // Parse error.
    assert!(ctx.query("SELEKT 1").is_err());
    // Duplicate registration.
    ctx.register("t", Relation::edges(&[])).unwrap();
    assert!(ctx.register("t", Relation::edges(&[])).is_err());
    // avg in recursion.
    ctx.register("edge", Relation::weighted_edges(&[(1, 2, 1.0)]))
        .unwrap();
    let err = ctx
        .query(
            "WITH recursive r(X, avg() AS A) AS \
               (SELECT Src, Cost FROM edge) UNION \
               (SELECT edge.Dst, r.A FROM r, edge WHERE r.X = edge.Src) \
             SELECT X, A FROM r",
        )
        .unwrap_err();
    assert!(err.to_string().contains("PreM"));
}

#[test]
fn same_generation_cross_engine_count() {
    let tree = tree_hierarchy(
        TreeConfig {
            target_nodes: 150,
            ..Default::default()
        },
        5,
    );
    let rel = Relation::try_new(
        Schema::new(vec![("Parent", DataType::Int), ("Child", DataType::Int)]),
        tree.assbl.rows().to_vec(),
    )
    .unwrap();
    let expected = gap::same_generation_count(&Relation::edges(
        &rel.rows()
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect::<Vec<_>>(),
    ));
    let ctx = EngineConfig::rasql().workers(2).build();
    ctx.register("rel", rel).unwrap();
    let got = ctx.query(&library::same_generation()).unwrap().relation;
    assert_eq!(got.len(), expected);
}

#[test]
fn prem_checker_through_facade() {
    use rasql::core::{PremCheckOutcome, PremChecker};
    let ctx = RaSqlContext::in_memory();
    ctx.register("edge", weighted_graph(150, 3)).unwrap();
    let outcome = PremChecker::new(&ctx).check(&library::sssp(1)).unwrap();
    assert!(
        matches!(
            outcome,
            PremCheckOutcome::Holds { .. } | PremCheckOutcome::HeldWithinBound { .. }
        ),
        "{outcome:?}"
    );
}
