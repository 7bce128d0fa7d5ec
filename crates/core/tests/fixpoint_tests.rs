//! End-to-end tests: every paper query executed through [`RaSqlContext`] and
//! checked against an independent serial oracle, across engine configurations
//! (semi-naive/naive, stage combination on/off, fused/unfused, shuffle-hash/
//! sort-merge, decomposed/plain).

use rasql_core::{library, EngineConfig, EvalMode, JoinStrategy, RaSqlContext};
use rasql_gap::algorithms as oracle;
use rasql_gap::Csr;
use rasql_storage::{DataType, Relation, Row, Schema, Value};

fn ctx_with(config: EngineConfig) -> RaSqlContext {
    config.workers(2).build()
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

/// All interesting config axes.
fn all_configs() -> Vec<(&'static str, EngineConfig)> {
    vec![
        ("rasql", EngineConfig::rasql()),
        (
            "no-stage-combination",
            EngineConfig::rasql().stage_combination(false),
        ),
        ("unfused", EngineConfig::rasql().fused_codegen(false)),
        (
            "sort-merge",
            EngineConfig::rasql().join(JoinStrategy::SortMerge),
        ),
        (
            "no-decomposed",
            EngineConfig::rasql().decomposed_plans(false),
        ),
        ("bigdatalog-like", EngineConfig::bigdatalog_like()),
        ("spark-sql-sn", EngineConfig::spark_sql_sn()),
    ]
}

// ----------------------------------------------------------------------
// Transitive closure & reachability (set semantics)
// ----------------------------------------------------------------------

#[test]
fn tc_on_cycle_all_configs() {
    // 4-cycle: TC = all 16 ordered pairs.
    let edges = Relation::edges(&[(0, 1), (1, 2), (2, 3), (3, 0)]);
    for (name, cfg) in all_configs() {
        let ctx = ctx_with(cfg);
        ctx.register("edge", edges.clone()).unwrap();
        let tc = ctx.query(&library::transitive_closure()).unwrap().relation;
        assert_eq!(tc.len(), 16, "config {name}");
    }
}

#[test]
fn tc_matches_oracle_on_random_graph() {
    let edges = rasql_datagen::rmat(200, rasql_datagen::RmatConfig::default(), 9);
    let expected = oracle::transitive_closure_count(&edges);
    for (name, cfg) in [
        ("rasql", EngineConfig::rasql()),
        (
            "no-decomposed",
            EngineConfig::rasql().decomposed_plans(false),
        ),
        ("naive", EngineConfig::spark_sql_naive()),
    ] {
        let ctx = ctx_with(cfg);
        ctx.register("edge", edges.clone()).unwrap();
        let tc = ctx.query(&library::transitive_closure()).unwrap().relation;
        assert_eq!(tc.len(), expected, "config {name}");
    }
}

#[test]
fn reach_matches_bfs() {
    let edges = rasql_datagen::rmat(300, rasql_datagen::RmatConfig::default(), 21);
    let csr = Csr::from_relation(&edges);
    let mut expected: Vec<i64> = oracle::bfs_reach(&csr, 1)
        .iter()
        .map(|&v| v as i64)
        .collect();
    expected.sort_unstable();
    for (name, cfg) in all_configs() {
        let ctx = ctx_with(cfg);
        ctx.register("edge", edges.clone()).unwrap();
        let got = ctx.query(&library::reach(1)).unwrap().relation;
        let mut vals: Vec<i64> = got.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
        vals.sort_unstable();
        assert_eq!(vals, expected, "config {name}");
    }
}

// ----------------------------------------------------------------------
// SSSP / CC / BOM (min/max aggregates in recursion)
// ----------------------------------------------------------------------

#[test]
fn sssp_matches_dijkstra_all_configs() {
    let edges = rasql_datagen::rmat(
        300,
        rasql_datagen::RmatConfig {
            weighted: true,
            ..Default::default()
        },
        5,
    );
    let csr = Csr::from_relation(&edges);
    let expected = oracle::sssp_dijkstra(&csr, 1);
    for (name, cfg) in all_configs() {
        let ctx = ctx_with(cfg);
        ctx.register("edge", edges.clone()).unwrap();
        let got = ctx.query(&library::sssp(1)).unwrap().relation;
        assert_eq!(got.len(), expected.len(), "config {name}");
        for r in got.rows() {
            let dst = r[0].as_int().unwrap();
            let cost = r[1].as_f64().unwrap();
            let want = expected[&dst];
            assert!(
                (cost - want).abs() < 1e-9,
                "config {name}: dst {dst} got {cost} want {want}"
            );
        }
    }
}

#[test]
fn sssp_terminates_on_cyclic_graph() {
    // The killer case for stratified evaluation (Fig 1): cycles.
    let edges = Relation::weighted_edges(&[(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0), (3, 4, 1.0)]);
    let ctx = ctx_with(EngineConfig::rasql());
    ctx.register("edge", edges).unwrap();
    let got = ctx.query(&library::sssp(1)).unwrap().relation.sorted();
    let costs: Vec<(i64, f64)> = got
        .rows()
        .iter()
        .map(|r| (r[0].as_int().unwrap(), r[1].as_f64().unwrap()))
        .collect();
    assert_eq!(costs, vec![(1, 0.0), (2, 1.0), (3, 2.0), (4, 3.0)]);
}

#[test]
fn stratified_sssp_on_cycle_hits_iteration_cap() {
    let edges = Relation::weighted_edges(&[(1, 2, 1.0), (2, 1, 1.0)]);
    let ctx = ctx_with(EngineConfig::rasql().max_iterations(30));
    ctx.register("edge", edges).unwrap();
    let err = ctx.query(&library::sssp_stratified(1)).unwrap_err();
    assert!(err.to_string().contains("did not converge"), "{err}");
}

#[test]
fn cc_matches_oracle() {
    let edges = rasql_datagen::rmat(200, rasql_datagen::RmatConfig::default(), 33);
    let expected = oracle::cc_rasql_oracle(&edges);
    for (name, cfg) in all_configs() {
        let ctx = ctx_with(cfg);
        ctx.register("edge", edges.clone()).unwrap();
        let got = ctx.query(&library::cc()).unwrap().relation;
        assert_eq!(got.len(), expected.len(), "config {name}");
        for r in got.rows() {
            let node = r[0].as_int().unwrap();
            let cmp = r[1].as_int().unwrap();
            assert_eq!(cmp, expected[&node], "config {name} node {node}");
        }
    }
}

#[test]
fn cc_count_distinct_components() {
    // Two components: {0,1,2} and {10,11} (labels propagate along edges from
    // sources; make both directions explicit).
    let edges = Relation::edges(&[(0, 1), (1, 0), (1, 2), (2, 1), (10, 11), (11, 10)]);
    let ctx = ctx_with(EngineConfig::rasql());
    ctx.register("edge", edges).unwrap();
    let got = ctx.query(&library::cc_count()).unwrap().relation;
    assert_eq!(got.rows()[0][0], Value::Int(2));
}

#[test]
fn bom_q1_and_q2_agree_with_oracle() {
    let tree = rasql_datagen::tree_hierarchy(
        rasql_datagen::TreeConfig {
            target_nodes: 500,
            ..Default::default()
        },
        17,
    );
    let expected = oracle::waitfor_days(&tree.assbl, &tree.basic);
    for sql in [library::bom_delivery(), library::bom_delivery_stratified()] {
        let ctx = ctx_with(EngineConfig::rasql());
        ctx.register("assbl", tree.assbl.clone()).unwrap();
        ctx.register("basic", tree.basic.clone()).unwrap();
        let got = ctx.query(&sql).unwrap().relation;
        assert_eq!(got.len(), expected.len(), "{sql}");
        for r in got.rows() {
            let part = r[0].as_int().unwrap();
            assert_eq!(r[1].as_int().unwrap(), expected[&part], "part {part}");
        }
    }
}

// ----------------------------------------------------------------------
// sum/count in recursion
// ----------------------------------------------------------------------

#[test]
fn count_paths_matches_oracle_on_dag() {
    // Layered DAG (guaranteed acyclic).
    let mut e = Vec::new();
    for layer in 0..5i64 {
        for a in 0..4i64 {
            for b in 0..4i64 {
                if (a + b) % 3 != 0 {
                    e.push((layer * 4 + a, (layer + 1) * 4 + b));
                }
            }
        }
    }
    let edges = Relation::edges(&e);
    let expected = oracle::count_paths_dag(&edges, 0);
    for (name, cfg) in all_configs() {
        let ctx = ctx_with(cfg);
        ctx.register("edge", edges.clone()).unwrap();
        let got = ctx.query(&library::count_paths(0)).unwrap().relation;
        assert_eq!(got.len(), expected.len(), "config {name}");
        for r in got.rows() {
            let dst = r[0].as_int().unwrap();
            assert_eq!(
                r[1].as_int().unwrap(),
                expected[&dst],
                "config {name} dst {dst}"
            );
        }
    }
}

#[test]
fn management_matches_oracle() {
    let tree = rasql_datagen::tree_hierarchy(
        rasql_datagen::TreeConfig {
            target_nodes: 400,
            ..Default::default()
        },
        8,
    );
    let expected = oracle::management_counts(&tree.report);
    for (name, cfg) in [
        ("rasql", EngineConfig::rasql()),
        (
            "no-stage-combination",
            EngineConfig::rasql().stage_combination(false),
        ),
        ("spark-sql-sn", EngineConfig::spark_sql_sn()),
    ] {
        let ctx = ctx_with(cfg);
        ctx.register("report", tree.report.clone()).unwrap();
        let got = ctx.query(&library::management()).unwrap().relation;
        assert_eq!(got.len(), expected.len(), "config {name}");
        for r in got.rows() {
            let mgr = r[0].as_int().unwrap();
            assert_eq!(
                r[1].as_int().unwrap(),
                expected[&mgr],
                "config {name} mgr {mgr}"
            );
        }
    }
}

#[test]
fn mlm_matches_oracle() {
    let tree = rasql_datagen::tree_hierarchy(
        rasql_datagen::TreeConfig {
            target_nodes: 300,
            ..Default::default()
        },
        4,
    );
    let expected = oracle::mlm_bonuses(&tree.sales, &tree.sponsor);
    let ctx = ctx_with(EngineConfig::rasql());
    ctx.register("sales", tree.sales.clone()).unwrap();
    ctx.register("sponsor", tree.sponsor).unwrap();
    let got = ctx.query(&library::mlm_bonus()).unwrap().relation;
    assert_eq!(got.len(), expected.len());
    for r in got.rows() {
        let m = r[0].as_int().unwrap();
        let b = r[1].as_f64().unwrap();
        assert!(
            (b - expected[&m]).abs() < 1e-6,
            "member {m}: got {b} want {}",
            expected[&m]
        );
    }
}

// ----------------------------------------------------------------------
// Mutual & non-linear recursion
// ----------------------------------------------------------------------

#[test]
fn party_attendance_threshold() {
    // organizer: alice. bob has friends alice, carol, dave, eve.
    // carol/dave/eve each have 3 friends: alice + two attendees...
    // Build: alice organizes. p2,p3,p4 are friends with alice and each other,
    // so once alice attends... they need >= 3 attending friends.
    let organizer = Relation::try_new(
        Schema::new(vec![("OrgName", DataType::Str)]),
        vec![Row::new(vec![Value::from("alice")])],
    )
    .unwrap();
    // friend(Pname, Fname): Pname is a friend of... per the query, when
    // `attend.Person = friend.Pname`, FName gains one attending friend.
    let mut fr = Vec::new();
    let mut add = |p: &str, f: &str| fr.push((p.to_string(), f.to_string()));
    // alice counts toward bob, carol, dave.
    add("alice", "bob");
    add("alice", "carol");
    add("alice", "dave");
    // bob, carol, dave count toward each other.
    for a in ["bob", "carol", "dave"] {
        for b in ["bob", "carol", "dave"] {
            if a != b {
                add(a, b);
            }
        }
    }
    // eve only has alice.
    add("alice", "eve");
    let friend = Relation::try_new(
        Schema::new(vec![("Pname", DataType::Str), ("Fname", DataType::Str)]),
        fr.iter()
            .map(|(p, f)| Row::new(vec![Value::from(p.as_str()), Value::from(f.as_str())]))
            .collect(),
    )
    .unwrap();
    let ctx = ctx_with(EngineConfig::rasql());
    ctx.register("organizer", organizer).unwrap();
    ctx.register("friend", friend).unwrap();
    let got = ctx
        .query(&library::party_attendance())
        .unwrap()
        .relation
        .sorted();
    let names: Vec<&str> = got.rows().iter().map(|r| r[0].as_str().unwrap()).collect();
    // alice attends (organizer). bob/carol/dave: with alice attending they
    // have 1; nobody reaches 3 unless the mutual clique bootstraps — it
    // cannot (needs 3 first). So only alice attends... unless alice + two
    // others. Verify the fixpoint finds exactly {alice}.
    assert_eq!(names, vec!["alice"]);
}

#[test]
fn party_attendance_cascade() {
    // Give bob three attending friends directly (3 organizers), then carol
    // via bob+organizers, exercising the mutual-recursion cascade.
    let organizer = Relation::try_new(
        Schema::new(vec![("OrgName", DataType::Str)]),
        ["o1", "o2", "o3"]
            .iter()
            .map(|o| Row::new(vec![Value::from(*o)]))
            .collect(),
    )
    .unwrap();
    let mut fr: Vec<(String, String)> = Vec::new();
    for o in ["o1", "o2", "o3"] {
        fr.push((o.into(), "bob".into()));
    }
    // carol's friends: o1, o2, bob → reaches 3 only after bob attends.
    for p in ["o1", "o2", "bob"] {
        fr.push((p.into(), "carol".into()));
    }
    // dave's friends: o1, carol → never reaches 3.
    fr.push(("o1".into(), "dave".into()));
    fr.push(("carol".into(), "dave".into()));
    let friend = Relation::try_new(
        Schema::new(vec![("Pname", DataType::Str), ("Fname", DataType::Str)]),
        fr.iter()
            .map(|(p, f)| Row::new(vec![Value::from(p.as_str()), Value::from(f.as_str())]))
            .collect(),
    )
    .unwrap();
    let ctx = ctx_with(EngineConfig::rasql());
    ctx.register("organizer", organizer).unwrap();
    ctx.register("friend", friend).unwrap();
    let got = ctx
        .query(&library::party_attendance())
        .unwrap()
        .relation
        .sorted();
    let names: Vec<&str> = got.rows().iter().map(|r| r[0].as_str().unwrap()).collect();
    assert_eq!(names, vec!["bob", "carol", "o1", "o2", "o3"]);
}

#[test]
fn company_control_mumick_example() {
    // A owns 60% of B directly ⇒ A controls B. B owns 30% of C and A owns
    // 25% of C ⇒ A's controlled shares of C = 25 + 30 = 55 ⇒ A controls C.
    let shares = Relation::try_new(
        Schema::new(vec![
            ("By", DataType::Str),
            ("Of", DataType::Str),
            ("Percent", DataType::Int),
        ]),
        vec![
            Row::new(vec![Value::from("a"), Value::from("b"), Value::Int(60)]),
            Row::new(vec![Value::from("b"), Value::from("c"), Value::Int(30)]),
            Row::new(vec![Value::from("a"), Value::from("c"), Value::Int(25)]),
        ],
    )
    .unwrap();
    let ctx = ctx_with(EngineConfig::rasql());
    ctx.register("shares", shares).unwrap();
    let got = ctx
        .query(&library::company_control())
        .unwrap()
        .relation
        .sorted();
    let rows: Vec<(String, String, i64)> = got
        .rows()
        .iter()
        .map(|r| {
            (
                r[0].as_str().unwrap().to_string(),
                r[1].as_str().unwrap().to_string(),
                r[2].as_int().unwrap(),
            )
        })
        .collect();
    assert!(rows.contains(&("a".into(), "b".into(), 60)), "{rows:?}");
    assert!(rows.contains(&("a".into(), "c".into(), 55)), "{rows:?}");
    assert!(rows.contains(&("b".into(), "c".into(), 30)), "{rows:?}");
}

#[test]
fn same_generation_matches_oracle() {
    let rel = int_rel(
        &["Parent", "Child"],
        &[
            &[0, 1],
            &[0, 2],
            &[1, 3],
            &[1, 4],
            &[2, 5],
            &[2, 6],
            &[5, 7],
            &[6, 8],
        ],
    );
    let expected = oracle::same_generation_count(&rel);
    for (name, cfg) in [
        ("rasql", EngineConfig::rasql()),
        (
            "no-stage-combination",
            EngineConfig::rasql().stage_combination(false),
        ),
    ] {
        let ctx = ctx_with(cfg);
        ctx.register("rel", rel.clone()).unwrap();
        let got = ctx.query(&library::same_generation()).unwrap().relation;
        assert_eq!(got.len(), expected, "config {name}");
    }
}

#[test]
fn apsp_small_graph() {
    let edges = Relation::weighted_edges(&[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (0, 2, 5.0)]);
    let ctx = ctx_with(EngineConfig::rasql());
    ctx.register("edge", edges).unwrap();
    let got = ctx.query(&library::apsp()).unwrap().relation.sorted();
    // 9 pairs (including self-loops through the cycle).
    assert_eq!(got.len(), 9);
    let find = |s: i64, d: i64| -> f64 {
        got.rows()
            .iter()
            .find(|r| r[0].as_int() == Some(s) && r[1].as_int() == Some(d))
            .map(|r| r[2].as_f64().unwrap())
            .unwrap()
    };
    assert_eq!(find(0, 2), 2.0); // via 1, not the direct 5.0 edge
    assert_eq!(find(2, 1), 2.0); // 2→0→1
    assert_eq!(find(0, 0), 3.0); // round trip
}

#[test]
fn interval_coalesce_example() {
    let inter = int_rel(&["S", "E"], &[&[1, 3], &[2, 5], &[4, 8], &[10, 12]]);
    let ctx = ctx_with(EngineConfig::rasql());
    ctx.register("inter", inter).unwrap();
    let results = ctx.query_script(&library::interval_coalesce()).unwrap();
    let got = results.last().unwrap().relation.clone().sorted();
    let rows: Vec<(i64, i64)> = got
        .rows()
        .iter()
        .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
        .collect();
    assert_eq!(rows, vec![(1, 8), (10, 12)]);
}

// ----------------------------------------------------------------------
// Engine behavior details
// ----------------------------------------------------------------------

#[test]
fn naive_and_semi_naive_agree_but_naive_does_more_work() {
    let edges = rasql_datagen::rmat(100, rasql_datagen::RmatConfig::default(), 2);
    let sn_ctx = ctx_with(EngineConfig::rasql().decomposed_plans(false));
    sn_ctx.register("edge", edges.clone()).unwrap();
    let sn = sn_ctx.query(&library::reach(1)).unwrap().relation.sorted();

    let nv_ctx = ctx_with(EngineConfig::spark_sql_naive());
    nv_ctx.register("edge", edges).unwrap();
    let nv = nv_ctx.query(&library::reach(1)).unwrap().relation.sorted();
    assert_eq!(sn, nv);
}

#[test]
fn stage_combination_halves_stages() {
    let edges = rasql_datagen::rmat(
        500,
        rasql_datagen::RmatConfig {
            weighted: true,
            ..Default::default()
        },
        6,
    );
    let run = |combine: bool| -> (u64, u64) {
        // Pin the fast-path axes off: this ablation measures the *generic*
        // engine's stage combination, not the specialized kernels.
        let ctx = ctx_with(
            EngineConfig::rasql()
                .stage_combination(combine)
                .decomposed_plans(false)
                .specialized_kernels(false),
        );
        ctx.register("edge", edges.clone()).unwrap();
        let stats = ctx.query(&library::sssp(1)).unwrap().stats;
        (stats.metrics.stages, stats.metrics.iterations)
    };
    let (stages_on, iters_on) = run(true);
    let (stages_off, iters_off) = run(false);
    assert_eq!(iters_on, iters_off, "same fixpoint depth");
    assert!(
        stages_off as f64 >= 1.7 * stages_on as f64,
        "stage combination should ~halve stages: on={stages_on} off={stages_off}"
    );
}

#[test]
fn decomposed_tc_runs_in_constant_stages() {
    let edges = rasql_datagen::grid(20, false, 1);
    let ctx = ctx_with(EngineConfig::rasql());
    ctx.register("edge", edges.clone()).unwrap();
    let dec_stages = ctx
        .query(&library::transitive_closure())
        .unwrap()
        .stats
        .metrics
        .stages;

    let ctx2 = ctx_with(EngineConfig::rasql().decomposed_plans(false));
    ctx2.register("edge", edges).unwrap();
    let plain_stages = ctx2
        .query(&library::transitive_closure())
        .unwrap()
        .stats
        .metrics
        .stages;
    assert!(
        dec_stages * 4 < plain_stages,
        "decomposed {dec_stages} vs plain {plain_stages}"
    );
}

#[test]
fn broadcast_compression_reduces_bytes() {
    let edges = rasql_datagen::grid(40, false, 1);
    let run = |compress: bool| -> u64 {
        let ctx = ctx_with(EngineConfig::rasql().broadcast_compression(compress));
        ctx.register("edge", edges.clone()).unwrap();
        let result = ctx.query(&library::transitive_closure()).unwrap();
        result.stats.metrics.broadcast_bytes
    };
    let compressed = run(true);
    let raw = run(false);
    assert!(compressed * 4 < raw, "compressed {compressed} vs raw {raw}");
}

#[test]
fn query_stats_report_iterations() {
    // Chain of length 5 → 5 meaningful iterations for REACH.
    let edges = Relation::edges(&[(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]);
    let ctx = ctx_with(EngineConfig::rasql());
    ctx.register("edge", edges).unwrap();
    let stats = ctx.query(&library::reach(1)).unwrap().stats;
    assert_eq!(stats.iterations.len(), 1);
    assert!(stats.iterations[0] >= 5, "{:?}", stats.iterations);
}

#[test]
fn explain_shows_fixpoint_plan() {
    let ctx = ctx_with(EngineConfig::rasql());
    ctx.register("edge", Relation::edges(&[(1, 2)])).unwrap();
    let plan = ctx.explain(&library::transitive_closure()).unwrap();
    assert!(plan.contains("RecursiveClique tc"), "{plan}");
    assert!(plan.contains("Final plan:"), "{plan}");
    assert!(plan.contains("ViewScan tc"), "{plan}");
}

#[test]
fn empty_base_case_terminates_immediately() {
    let ctx = ctx_with(EngineConfig::rasql());
    ctx.register("edge", Relation::edges(&[])).unwrap();
    let got = ctx.query(&library::transitive_closure()).unwrap().relation;
    assert!(got.is_empty());
}

#[test]
fn self_loop_single_node() {
    let ctx = ctx_with(EngineConfig::rasql());
    ctx.register("edge", Relation::edges(&[(7, 7)])).unwrap();
    let got = ctx.query(&library::transitive_closure()).unwrap().relation;
    assert_eq!(got.len(), 1);
}

#[test]
fn workers_sweep_gives_same_answers() {
    let edges = rasql_datagen::rmat(150, rasql_datagen::RmatConfig::default(), 12);
    let mut reference: Option<Relation> = None;
    for workers in [1, 2, 4] {
        let ctx = EngineConfig::rasql().workers(workers).build();
        ctx.register("edge", edges.clone()).unwrap();
        let got = ctx.query(&library::cc()).unwrap().relation.sorted();
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(&got, r, "workers={workers}"),
        }
    }
}

#[test]
fn eval_mode_naive_on_aggregates() {
    // Naive evaluation must also converge for min-aggregates.
    let edges = Relation::weighted_edges(&[(1, 2, 1.0), (2, 3, 1.0), (1, 3, 5.0)]);
    let ctx = ctx_with(EngineConfig {
        eval_mode: EvalMode::Naive,
        ..EngineConfig::rasql()
    });
    ctx.register("edge", edges).unwrap();
    let got = ctx.query(&library::sssp(1)).unwrap().relation.sorted();
    let costs: Vec<(i64, f64)> = got
        .rows()
        .iter()
        .map(|r| (r[0].as_int().unwrap(), r[1].as_f64().unwrap()))
        .collect();
    assert_eq!(costs, vec![(1, 0.0), (2, 1.0), (3, 2.0)]);
}
