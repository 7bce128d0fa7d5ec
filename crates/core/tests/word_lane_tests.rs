//! Word-lane tuples, pinned from outside: a clique whose recursive columns
//! are all `Int`/`Double` runs on packed words, and a value that leaves its
//! lane mid-run — an overflowing `sum`, a NULL, string or double where the
//! schema says `Int` — abandons that run and evaluates the clique on rows
//! from the immutable base. Either way the answer is the row
//! interpreter's (`fused_codegen(false)` never leaves rows), round for round.

use rasql_core::{EngineConfig, QueryResult, RaSqlContext};
use rasql_storage::{DataType, Relation, Row, Schema, Value};

type Tables = Vec<(&'static str, Relation)>;

/// A two-column table declared `Int, Int`, whatever its values are.
fn pairs(cols: [&str; 2], rows: &[[Value; 2]]) -> Relation {
    let schema = Schema::new(
        cols.iter()
            .map(|c| (c.to_string(), DataType::Int))
            .collect(),
    );
    let rows = rows.iter().map(|r| Row::new(r.to_vec())).collect();
    Relation::try_new(schema, rows).unwrap()
}

fn int_pairs(cols: [&str; 2], rows: &[[i64; 2]]) -> Relation {
    let rows: Vec<[Value; 2]> = rows.iter().map(|r| r.map(Value::Int)).collect();
    pairs(cols, &rows)
}

/// The interpreter (no kernel), on words where the clique allows it.
fn interp() -> EngineConfig {
    EngineConfig::rasql()
        .with_workers(2)
        .with_specialized_kernels(false)
}

fn run(cfg: &EngineConfig, tables: &Tables, sql: &str) -> QueryResult {
    let ctx = RaSqlContext::with_config(cfg.clone().with_tracing(true));
    for (name, rel) in tables {
        ctx.register(name, rel.clone()).unwrap();
    }
    ctx.query(sql).unwrap()
}

/// `(round, delta, total)` per recorded round of the one clique a query has.
fn rounds(result: &QueryResult) -> Vec<(u32, u64, u64)> {
    let trace = result.trace.as_ref().expect("tracing was on");
    assert_eq!(trace.cliques.len(), 1, "an abandoned run left a clique");
    let clique = &trace.cliques[0];
    (clique.iterations.iter())
        .map(|it| (it.round, it.delta_rows, it.total_rows))
        .collect()
}

/// Run on every evaluation mode the word path has and demand: the rows and
/// the round table of the row interpreter, `escapes` abandoned word runs,
/// and the representation the surviving run reports.
fn assert_matches_rows(tables: &Tables, sql: &str, escapes: u64) {
    let modes = [
        ("decomposed", interp()),
        ("combined", interp().with_decomposed(false)),
        (
            "separate",
            interp()
                .with_decomposed(false)
                .with_stage_combination(false),
        ),
    ];
    for (mode, cfg) in modes {
        let on_rows = run(&cfg.clone().with_fused_codegen(false), tables, sql);
        assert_eq!(on_rows.stats.metrics.word_cliques, 0, "{mode}");
        let got = run(&cfg, tables, sql);
        assert_eq!(
            got.relation.clone().sorted().rows(),
            on_rows.relation.clone().sorted().rows(),
            "{mode}: rows differ"
        );
        assert_eq!(got.stats.iterations, on_rows.stats.iterations, "{mode}");
        // Nothing of an abandoned run survives into the rerun: one clique in
        // the trace, with the row interpreter's own round table.
        assert_eq!(rounds(&got), rounds(&on_rows), "{mode}: round tables");
        let m = &got.stats.metrics;
        assert_eq!(m.lane_escapes, escapes, "{mode}");
        assert_eq!(m.word_cliques, 1 - escapes, "{mode}");
        let tuples = &got.trace.as_ref().unwrap().cliques[0].tuples;
        assert_eq!(
            tuples,
            if escapes == 0 { "words" } else { "rows" },
            "{mode}"
        );
    }
}

const REACH: &str = "WITH recursive r (Src, Dst) AS \
       (SELECT Src, Dst FROM seed) UNION \
       (SELECT r.Src, edge.Dst FROM r, edge WHERE r.Dst = edge.Src) \
     SELECT Src, Dst FROM r";

fn chain() -> Vec<[i64; 2]> {
    (0..12)
        .map(|i| [i, i + 1])
        .chain([[3, 0], [7, 2]])
        .collect()
}

#[test]
fn numeric_cliques_run_on_words_and_agree_with_rows() {
    let tables: Tables = vec![
        ("seed", int_pairs(["Src", "Dst"], &[[0, 1], [5, 6], [0, 1]])),
        ("edge", int_pairs(["Src", "Dst"], &chain())),
    ];
    assert_matches_rows(&tables, REACH, 0);
    // An aggregate with arithmetic, comparisons and a Double column.
    let weighted = rasql_datagen::rmat(
        48,
        rasql_datagen::RmatConfig {
            weighted: true,
            ..Default::default()
        },
        3,
    );
    let capped = "WITH recursive path (Src, Dst, min() AS Cost) AS \
           (SELECT Src, Dst, Cost FROM edge) UNION \
           (SELECT path.Src, edge.Dst, path.Cost + edge.Cost * 2 FROM path, edge \
            WHERE path.Dst = edge.Src AND path.Cost + edge.Cost < 40 AND NOT path.Src = edge.Dst) \
         SELECT Src, Dst, Cost FROM path";
    assert_matches_rows(&vec![("edge", weighted)], capped, 0);
}

#[test]
fn a_sum_that_overflows_in_round_three_escapes_to_rows() {
    // Two paths of length three meet in vertex 5, each carrying 2^62: the
    // `Int` total overflows when round 3 merges them, where `Value::add`
    // promotes to `Double`. Rounds 1 and 2 ran on words.
    let edges = int_pairs(
        ["Src", "Dst"],
        &[[0, 1], [0, 2], [1, 3], [2, 4], [3, 5], [4, 5], [5, 6]],
    );
    let sql = format!(
        "WITH recursive cpaths (Dst, sum() AS Cnt) AS \
           (SELECT 0, {}) UNION \
           (SELECT edge.Dst, cpaths.Cnt FROM cpaths, edge WHERE cpaths.Dst = edge.Src) \
         SELECT Dst, Cnt FROM cpaths",
        1i64 << 62
    );
    let tables: Tables = vec![("edge", edges)];
    assert_matches_rows(&tables, &sql, 1);
    let result = run(&interp(), &tables, &sql);
    let total = |v: i64| {
        let row = result
            .relation
            .rows()
            .iter()
            .find(|r| r[0] == Value::Int(v));
        row.unwrap()[1].clone()
    };
    assert_eq!(total(4), Value::Int(1 << 62));
    assert!(matches!(total(5), Value::Double(d) if d == 2f64.powi(63)));
}

#[test]
fn an_overflow_in_the_middle_of_a_block_abandons_the_run() {
    // In round 1 the delta tuple `(3, 4, 1)` meets vertex 4's three edges in
    // table order, so its derivations sit side by side in one block: the
    // new `(3, 5, 2)` and `(3, 6, 2)`, then `(3, 7, 1 + i64::MAX)`, whose
    // `Int` cost overflows in the projection — where `Value::add` promotes
    // to `Double`. The block's earlier tuples go with the abandoned run;
    // the rows rerun derives them again.
    let rows: Vec<[i64; 3]> = vec![
        [0, 1, 1],
        [1, 2, 1],
        [2, 3, 1],
        [3, 4, 1],
        [4, 5, 1],
        [4, 6, 1],
        [4, 7, i64::MAX],
        [7, 8, 1],
    ];
    let schema = Schema::new(vec![
        ("Src", DataType::Int),
        ("Dst", DataType::Int),
        ("W", DataType::Int),
    ]);
    let rows = rows.iter().map(|r| Row::new(r.map(Value::Int).to_vec()));
    let edge = Relation::try_new(schema, rows.collect()).unwrap();
    let sql = "WITH recursive p (Src, Dst, Cost) AS \
           (SELECT Src, Dst, W FROM edge) UNION \
           (SELECT p.Src, edge.Dst, p.Cost + edge.W FROM p, edge WHERE p.Dst = edge.Src) \
         SELECT Src, Dst, Cost FROM p";
    let tables: Tables = vec![("edge", edge)];
    assert_matches_rows(&tables, sql, 1);
    let result = run(&interp(), &tables, sql);
    let cost = |src: i64, dst: i64| {
        let rows = result.relation.rows().iter();
        let row = rows
            .clone()
            .find(|r| r[0] == Value::Int(src) && r[1] == Value::Int(dst));
        row.unwrap()[2].clone()
    };
    assert_eq!(cost(3, 6), Value::Int(2));
    assert!(matches!(cost(3, 7), Value::Double(d) if d == 2f64.powi(63)));
}

#[test]
fn a_value_outside_its_declared_type_escapes_wherever_it_is_met() {
    let strays = [Value::Double(2.5), Value::Null, Value::from("x")];
    for stray in strays {
        // In the base case: met before any state exists.
        let mut seed: Vec<[Value; 2]> = vec![[Value::Int(0), Value::Int(1)]];
        seed.push([Value::Int(5), stray.clone()]);
        let edge = int_pairs(["Src", "Dst"], &chain());
        let tables: Tables = vec![("seed", pairs(["Src", "Dst"], &seed)), ("edge", edge)];
        assert_matches_rows(&tables, REACH, 1);

        // In a build side, in the column the join reads: met rounds in, when
        // a delta tuple first matches the row.
        let mut edge: Vec<[Value; 2]> = chain().iter().map(|r| r.map(Value::Int)).collect();
        edge.push([Value::Int(9), stray.clone()]);
        let seed = int_pairs(["Src", "Dst"], &[[0, 1], [5, 6]]);
        let tables: Tables = vec![
            ("seed", seed.clone()),
            ("edge", pairs(["Src", "Dst"], &edge)),
        ];
        assert_matches_rows(&tables, REACH, 1);

        // In a build-side column nothing reads (the join key is matched as
        // values, like the rows' own hash join): no cell is made of it.
        let mut edge: Vec<[Value; 2]> = chain().iter().map(|r| r.map(Value::Int)).collect();
        edge.push([stray.clone(), Value::Int(3)]);
        let tables: Tables = vec![("seed", seed), ("edge", pairs(["Src", "Dst"], &edge))];
        assert_matches_rows(&tables, REACH, 0);
    }
}

#[test]
fn explain_analyze_and_the_metrics_name_the_representation() {
    let ctx = RaSqlContext::with_config(interp());
    ctx.register("seed", int_pairs(["Src", "Dst"], &[[0, 1]]))
        .unwrap();
    ctx.register("edge", int_pairs(["Src", "Dst"], &chain()))
        .unwrap();
    let text = ctx.query(&format!("EXPLAIN ANALYZE {REACH}")).unwrap();
    let text: Vec<String> = (text.relation.rows().iter())
        .map(|r| r[0].to_string())
        .collect();
    let clique = text.iter().find(|l| l.starts_with("Fixpoint [r]")).unwrap();
    assert!(clique.ends_with(" tuples=words"), "{clique}");
    let prometheus = ctx.metrics().prometheus_text();
    assert!(
        prometheus.contains("rasql_word_cliques_total 1\n"),
        "{prometheus}"
    );
    assert!(prometheus.contains("rasql_lane_escapes_total 0\n"));
}

#[test]
fn a_double_key_column_probed_by_an_int_lane_matches_as_rows_do() {
    // `edge.Src` is declared `Double`: integral values an `Int` probe
    // matches, and `2.5`, NULL and `-0.0`, which no `Int` equals.
    let schema = Schema::new(vec![("Src", DataType::Double), ("Dst", DataType::Int)]);
    let mut rows: Vec<Row> = (chain().iter())
        .map(|&[s, d]| Row::new(vec![Value::Double(s as f64), Value::Int(d)]))
        .collect();
    for stray in [Value::Double(2.5), Value::Null, Value::Double(-0.0)] {
        rows.push(Row::new(vec![stray, Value::Int(99)]));
    }
    let edge = Relation::try_new(schema, rows).unwrap();
    let seed = int_pairs(["Src", "Dst"], &[[0, 0], [5, 6]]);
    assert_matches_rows(&vec![("seed", seed), ("edge", edge)], REACH, 0);
}
