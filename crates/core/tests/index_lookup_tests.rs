//! Differential tests for `WHERE col = literal` answered from the index
//! store: a statement returns the same rows *in the same order* whether its
//! chain scanned the table (first use), built the index (second use at one
//! rewrite version), probed it (third), probed it advanced by `INSERT`s, or
//! rebuilt it after a `DELETE` / `register_or_replace` swept it — and every
//! one of those answers is what a filter written in this file, sharing
//! nothing with the engine, computes from the table's rows.

use proptest::prelude::*;
use rasql_core::RaSqlContext;
use rasql_storage::{DataType, IndexStats, Relation, Row, Schema, Value};

fn schema() -> Schema {
    Schema::new(vec![
        ("a", DataType::Int),
        ("b", DataType::Double),
        ("c", DataType::Str),
    ])
}

/// `a`: small `Int`s; `b`: small `Double`s, mostly integral; `c`: one-letter
/// strings; a `NULL` here and there in `a` and `b`.
fn row_strategy() -> impl Strategy<Value = Row> {
    let a = prop_oneof![(0i64..7).prop_map(Value::Int), Just(Value::Null)];
    let b = prop_oneof![
        (0i64..7).prop_map(|i| Value::Double(i as f64)),
        (0i64..3).prop_map(|i| Value::Double(i as f64 + 0.5)),
        Just(Value::Null),
    ];
    let c = "[xyz]{1,1}".prop_map(|s| Value::from(s.as_str()));
    (a, b, c).prop_map(|(a, b, c)| Row::new(vec![a, b, c]))
}

/// A lookup literal with its column and SQL spelling: an `Int` column asked
/// with `5.0`, a `Double` column with `5`, `NULL`, keys that are missing,
/// string keys.
fn literal_strategy() -> impl Strategy<Value = (usize, Value, String)> {
    prop_oneof![
        (0i64..9).prop_map(|i| (0, Value::Int(i), i.to_string())),
        (0i64..9).prop_map(|i| (0, Value::Double(i as f64), format!("{i}.0"))),
        (0i64..9).prop_map(|i| (1, Value::Int(i), i.to_string())),
        (0i64..4).prop_map(|i| (1, Value::Double(i as f64 + 0.5), format!("{i}.5"))),
        "[wxyz]{1,1}".prop_map(|s| (2, Value::from(s.as_str()), format!("'{s}'"))),
        (0usize..2).prop_map(|c| (c, Value::Null, "NULL".to_string())),
    ]
}

fn sql_of(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Double(d) => format!("{d:?}"),
        Value::Str(s) => format!("'{s}'"),
        other => other.to_string(),
    }
}

fn insert_sql(rows: &[Row]) -> String {
    let tuples: Vec<String> = rows
        .iter()
        .map(|r| {
            let cells: Vec<String> = r.values().iter().map(sql_of).collect();
            format!("({})", cells.join(", "))
        })
        .collect();
    format!("INSERT INTO t VALUES {}", tuples.join(", "))
}

/// SQL equality as the engine defines it: `NULL` equals nothing, numbers
/// compare across `Int`/`Double`.
fn sql_eq(cell: &Value, literal: &Value) -> bool {
    !cell.is_null() && !literal.is_null() && cell == literal
}

const COLS: [&str; 3] = ["a", "b", "c"];

/// The statement shapes: the equality on either side, inside an `AND`, under
/// a second filter, with and without a projection — each with the oracle's
/// version of it over the table's rows, and whether the statement has an
/// equality an index can answer even when the literal is `NULL`.
type Oracle = Box<dyn Fn(&[Row]) -> Vec<Row>>;
fn statements(col: usize, literal: &Value, lit: &str) -> Vec<(String, Oracle, bool)> {
    let name = COLS[col];
    let matches = {
        let literal = literal.clone();
        move |r: &Row| sql_eq(&r[col], &literal)
    };
    let (m1, m2, m3, m4, m5) = (
        matches.clone(),
        matches.clone(),
        matches.clone(),
        matches.clone(),
        matches,
    );
    let c_is_x = |r: &Row| r[2] == Value::from("x");
    let a_small = |r: &Row| !r[0].is_null() && r[0] < Value::Int(4);
    vec![
        (
            format!("SELECT * FROM t WHERE {name} = {lit}"),
            Box::new(move |rows| rows.iter().filter(|r| m1(r)).cloned().collect()),
            false,
        ),
        (
            format!("SELECT c, a FROM t WHERE {lit} = {name}"),
            Box::new(move |rows| {
                rows.iter()
                    .filter(|r| m2(r))
                    .map(|r| r.project(&[2, 0]))
                    .collect()
            }),
            false,
        ),
        (
            format!("SELECT a, b FROM t WHERE c = 'x' AND {name} = {lit}"),
            Box::new(move |rows| {
                rows.iter()
                    .filter(|r| c_is_x(r) && m3(r))
                    .map(|r| r.project(&[0, 1]))
                    .collect()
            }),
            // `c = 'x'` is the lookup when the other literal is `NULL`.
            true,
        ),
        (
            format!("SELECT b FROM t WHERE {name} = {lit} AND a < 4"),
            Box::new(move |rows| {
                rows.iter()
                    .filter(|r| m4(r) && a_small(r))
                    .map(|r| r.project(&[1]))
                    .collect()
            }),
            false,
        ),
        (
            format!("SELECT s.c FROM (SELECT a, c FROM t WHERE {name} = {lit}) s WHERE s.a < 4"),
            Box::new(move |rows| {
                rows.iter()
                    .filter(|r| m5(r) && a_small(r))
                    .map(|r| r.project(&[2]))
                    .collect()
            }),
            false,
        ),
    ]
}

fn ctx(fused: bool, rows: &[Row]) -> RaSqlContext {
    let ctx = RaSqlContext::builder()
        .workers(2)
        .fused_codegen(fused)
        .result_cache(0)
        .build();
    ctx.register("t", Relation::try_new(schema(), rows.to_vec()).unwrap())
        .unwrap();
    ctx
}

fn delta(after: IndexStats, before: IndexStats) -> (u64, u64, u64, u64) {
    (
        after.builds - before.builds,
        after.advances - before.advances,
        after.rebuilds - before.rebuilds,
        after.probes - before.probes,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn point_lookups_answer_like_a_scan_whatever_the_index_did(
        initial in prop::collection::vec(row_strategy(), 0..40),
        inserted in prop::collection::vec(row_strategy(), 1..12),
        lookup in literal_strategy(),
        fused in any::<bool>(),
        replace in any::<bool>(),
    ) {
        let (col, literal, lit) = lookup;
        for (sql, oracle, other_equality) in statements(col, &literal, &lit) {
            let usable = other_equality || !literal.is_null();
            let ctx = ctx(fused, &initial);
            let mut table = initial.clone();
            // First use scans, the second builds, the third probes.
            let mut expected_stats = vec![(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1)];
            if !usable {
                expected_stats = vec![(0, 0, 0, 0); 3];
            }
            for want in expected_stats {
                let before = ctx.index_stats();
                let got = ctx.query(&sql).unwrap();
                prop_assert_eq!(got.relation.rows(), &oracle(&table)[..], "{}", sql);
                prop_assert_eq!(delta(ctx.index_stats(), before), want, "{}", sql);
            }
            // INSERTs leave the store alone; the next lookup advances it.
            for chunk in inserted.chunks(5) {
                ctx.query(&insert_sql(chunk)).unwrap();
                table.extend_from_slice(chunk);
                let before = ctx.index_stats();
                let got = ctx.query(&sql).unwrap();
                prop_assert_eq!(got.relation.rows(), &oracle(&table)[..], "{}", sql);
                let want = if usable { (0, 1, 0, 1) } else { (0, 0, 0, 0) };
                prop_assert_eq!(delta(ctx.index_stats(), before), want, "{}", sql);
            }
            // A rewrite sweeps the entry: scan, build, probe again.
            if replace {
                table.reverse();
                ctx.register_or_replace("t", Relation::try_new(schema(), table.clone()).unwrap())
                    .unwrap();
            } else {
                ctx.query("DELETE FROM t WHERE c = 'y'").unwrap();
                table.retain(|r| r[2] != Value::from("y"));
            }
            prop_assert_eq!(ctx.index_stats().entries, 0);
            for _ in 0..3 {
                let got = ctx.query(&sql).unwrap();
                prop_assert_eq!(got.relation.rows(), &oracle(&table)[..], "{}", sql);
            }
            prop_assert_eq!(ctx.index_stats().entries, u64::from(usable));
        }
    }

    /// The same hook under `fold_partitions`: a kernel `reach` whose base
    /// case is a filtered scan seeds from the probe, and its graph is the
    /// store's CSR entry advanced by the inserted edges — rows and row order
    /// are those of a context that was handed the whole table at once, and
    /// the rows are the interpreter's.
    #[test]
    fn a_kernel_with_a_filtered_base_case_is_the_same_after_an_advance(
        pairs in prop::collection::vec((0i64..14, 0i64..14), 1..50),
        more in prop::collection::vec((0i64..20, 0i64..20), 1..10),
        source in 0i64..14,
    ) {
        let sql = format!(
            "WITH recursive reach (Dst) AS \
               (SELECT Src FROM edge WHERE Src = {source}) UNION \
               (SELECT edge.Dst FROM reach, edge WHERE reach.Dst = edge.Src) \
             SELECT Dst FROM reach"
        );
        let all: Vec<(i64, i64)> = pairs.iter().chain(&more).copied().collect();
        let grown = RaSqlContext::builder().workers(2).result_cache(0).tracing(true).build();
        grown.register("edge", Relation::edges(&pairs)).unwrap();
        // Whether a run gathered, and so fetched the graph's in-edges.
        let pulled = |r: &rasql_core::QueryResult| {
            r.trace.as_ref().unwrap().cliques[0].iterations.iter().any(|it| it.pull)
        };
        // Scan, build, probe — the CSR entry is built by the first query.
        let first = grown.query(&sql).unwrap();
        for _ in 0..2 {
            let again = grown.query(&sql).unwrap().relation;
            prop_assert_eq!(again.rows(), first.relation.rows());
        }
        let values: Vec<String> = more.iter().map(|(s, d)| format!("({s}, {d})")).collect();
        grown.query(&format!("INSERT INTO edge VALUES {}", values.join(", "))).unwrap();
        let before = grown.index_stats();
        let advanced = grown.query(&sql).unwrap();
        let stats = grown.index_stats();
        // The CSR and the hash entry advance, and so do the in-edges when a
        // run before and the run after the insert both pulled; in-edges only
        // the run after needs are built then.
        let (was, is) = (pulled(&first), pulled(&advanced));
        prop_assert_eq!(
            stats.advances - before.advances,
            2 + u64::from(was && is),
            "the CSR, the hash entry and the in-edges"
        );
        prop_assert_eq!(
            stats.builds + stats.rebuilds,
            before.builds + before.rebuilds + u64::from(is && !was)
        );
        let advanced = advanced.relation;

        let fresh = RaSqlContext::builder().workers(2).result_cache(0).build();
        fresh.register("edge", Relation::edges(&all)).unwrap();
        let at_once = fresh.query(&sql).unwrap().relation;
        prop_assert_eq!(advanced.rows(), at_once.rows());

        let interpreter = RaSqlContext::builder()
            .workers(2)
            .specialized_kernels(false)
            .build();
        interpreter.register("edge", Relation::edges(&all)).unwrap();
        let slow = interpreter.query(&sql).unwrap().relation.sorted();
        prop_assert_eq!(advanced.sorted().rows().to_vec(), slow.rows().to_vec());
    }
}

/// `EXPLAIN ANALYZE` names the access path: a `filter` stage while the chain
/// scans, `index lookup t[a]` on the scan once it probes.
#[test]
fn explain_analyze_names_the_access_path() {
    let rows: Vec<Row> = (0..20)
        .map(|i| {
            Row::new(vec![
                Value::Int(i % 4),
                Value::Double(0.0),
                Value::from("x"),
            ])
        })
        .collect();
    let ctx = ctx(true, &rows);
    let text =
        |r: &Relation| -> String { r.rows().iter().map(|row| format!("{}\n", row[0])).collect() };
    let sql = "EXPLAIN ANALYZE SELECT b FROM t WHERE a = 3";
    let scanned = text(&ctx.query(sql).unwrap().relation);
    assert!(scanned.contains("filter+project"), "{scanned}");
    assert!(!scanned.contains("index lookup"), "{scanned}");
    ctx.query(sql).unwrap();
    let probed = text(&ctx.query(sql).unwrap().relation);
    assert!(probed.contains("[index lookup t[a]]  (rows=5"), "{probed}");
    assert!(!probed.contains("filter+project"), "{probed}");
}
